// Package aliasflowfix exercises the aliasflow rule across function
// boundaries: pooled *packet.Packet values escaping through helper functions
// into long-lived storage. Every positive here routes the packet through a
// helper first, so a per-function pass provably misses them (aliasfix holds
// the same-function cases). Findings anchor at the escape site (the store in
// the helper), not the pool access.
package aliasflowfix

import (
	"nba/internal/batch"
	"nba/internal/packet"
)

type stash struct{ last *packet.Packet }

// keep is the helper that performs the store; the escape is flagged here.
func (s *stash) keep(p *packet.Packet) {
	s.last = p // want aliasflow
}

// remember launders each pooled packet through the keep helper.
func remember(s *stash, b *batch.Batch) {
	b.ForEachLive(func(i int, p *packet.Packet) {
		s.keep(p)
	})
}

// send is the helper that publishes a packet on a channel another goroutine
// (or a later virtual-time context) may drain after the batch was reset.
func send(ch chan *packet.Packet, p *packet.Packet) {
	ch <- p // want aliasflow
}

// publish launders slot packets through the send helper.
func publish(ch chan *packet.Packet, b *batch.Batch) {
	for i := 0; i < b.Count(); i++ {
		send(ch, b.Packet(i))
	}
}

type copier struct{ payload []byte }

// keepCopy is the sanctioned pattern: copy the bytes, let the packet go.
func (c *copier) keepCopy(p *packet.Packet) {
	c.payload = append(c.payload[:0], p.Data()...)
}

// rememberCopy is the negative case — no packet pointer outlives the batch.
func rememberCopy(c *copier, b *batch.Batch) {
	b.ForEachLive(func(i int, p *packet.Packet) {
		c.keepCopy(p)
	})
}

type allowedStash struct{ current *packet.Packet }

// hold documents a single-iteration stash with the escape hatch.
func (s *allowedStash) hold(p *packet.Packet) {
	s.current = p //nbalint:allow aliasflow fixture: cleared before the batch is recycled
}

// rememberAllowed exercises the suppressed path.
func rememberAllowed(s *allowedStash, b *batch.Batch) {
	b.ForEachLive(func(i int, p *packet.Packet) {
		s.hold(p)
	})
}
