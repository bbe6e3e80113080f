// Package aliasfix is an nbalint test fixture for aliasflow's same-function escapes.
package aliasfix

import (
	"nba/internal/batch"
	"nba/internal/packet"
)

type keeper struct {
	last *packet.Packet
	ring [4]*packet.Packet
}

var global *packet.Packet

func (k *keeper) store(b *batch.Batch) {
	k.last = b.Packet(0) // want aliasflow
	b.ForEachLive(func(i int, p *packet.Packet) {
		global = p // want aliasflow
	})
	pkt := b.Packet(1)
	k.last = pkt    // want aliasflow
	k.ring[0] = pkt // want aliasflow
}

func localUseIsFine(b *batch.Batch) int {
	total := 0
	pkt := b.Packet(0)
	if pkt != nil {
		total += pkt.Length()
	}
	b.ForEachLive(func(i int, p *packet.Packet) {
		q := p
		total += q.Length()
	})
	return total
}

func (k *keeper) annotated(b *batch.Batch) {
	k.last = b.Packet(0) //nbalint:allow aliasflow fixture exercising suppression
}
