// Package hotfix exercises the hotalloc rule: allocation constructs inside
// //nba:hotpath-annotated functions. Identical constructs in unannotated
// functions are the negative cases.
package hotfix

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"fmt"
	"hash"
)

type ring struct {
	data []int
	cb   func()
}

// grow appends into a struct field on a hot path.
//
//nba:hotpath
func grow(r *ring, v int) {
	r.data = append(r.data, v) // want hotalloc
}

// coldGrow is the same construct without the annotation: not flagged.
func coldGrow(r *ring, v int) {
	r.data = append(r.data, v)
}

// allowedGrow documents amortised growth with the escape hatch.
//
//nba:hotpath
func allowedGrow(r *ring, v int) {
	r.data = append(r.data, v) //nbalint:allow hotalloc fixture: growth amortises over the run
}

// makeScratch allocates a fresh slice per call.
//
//nba:hotpath
func makeScratch(n int) []int {
	return make([]int, n) // want hotalloc
}

// newRing returns a fresh composite literal per call.
//
//nba:hotpath
func newRing() *ring {
	return &ring{} // want hotalloc
}

// storeClosure stores a capturing function literal into a field.
//
//nba:hotpath
func storeClosure(r *ring, v int) {
	r.cb = func() { r.data[0] = v } // want hotalloc
}

type clock struct{}

func (clock) tick() {}

// methodValue returns a method value, which allocates a closure.
//
//nba:hotpath
func methodValue(c clock) func() {
	return c.tick // want hotalloc
}

// stringify converts []byte to string, copying the bytes.
//
//nba:hotpath
func stringify(bs []byte) string {
	return string(bs) // want hotalloc
}

func sink(v any) any { return v }

// box passes a non-pointer value to an interface parameter.
//
//nba:hotpath
func box(v int) any {
	return sink(v) // want hotalloc
}

// guarded shows the panic-argument exemption: the failing path may allocate
// its message.
//
//nba:hotpath
func guarded(i int) int {
	if i < 0 {
		panic(fmt.Sprintf("hotfix: negative index %d", i))
	}
	return i
}

// perPacketStream builds a cipher stream object per call: the allocation is
// inside the standard library, behind a constructor name.
//
//nba:hotpath
func perPacketStream(b cipher.Block, iv, data []byte) {
	cipher.NewCTR(b, iv).XORKeyStream(data, data) // want hotalloc
}

// perPacketContexts rebuilds the contexts a flow keeps for its lifetime.
//
//nba:hotpath
func perPacketContexts(key []byte) (cipher.Block, hash.Hash) {
	b, err := aes.NewCipher(key) // want hotalloc
	if err != nil {
		return nil, nil
	}
	return b, hmac.New(sha1.New, key) // want hotalloc
}

// perPacketHash: sha1.New as a value above is not a call; this one is.
//
//nba:hotpath
func perPacketHash() hash.Hash {
	return sha1.New() // want hotalloc
}

// setUp is where those constructors belong: not annotated, not flagged.
func setUp(key, iv []byte) (cipher.Stream, hash.Hash) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil
	}
	return cipher.NewCTR(b, iv), sha1.New()
}

// longPayload keeps the stream for inputs where it pays, with the reason.
//
//nba:hotpath
func longPayload(b cipher.Block, iv, data []byte) {
	//nbalint:allow hotalloc fixture: the stream's bulk routine outruns its object on long inputs
	cipher.NewCTR(b, iv).XORKeyStream(data, data)
}
