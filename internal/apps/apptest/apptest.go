// Package apptest holds the helper the sample applications' element tests
// share.
package apptest

import (
	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

// RunOne drives e over the single packet pkt by e's compute form and returns
// the packet's result (an output port, or element.Drop). An offloadable runs
// the way the framework runs it: its kernel over a batch, here of one packet.
func RunOne(e element.Element, ctx *element.ProcContext, pkt *packet.Packet) int {
	off, ok := e.(element.Offloadable)
	if !ok {
		return e.(element.PacketElement).Process(ctx, pkt)
	}
	var b batch.Batch
	b.Add(pkt)
	off.Kernel(ctx, &b)
	return b.Result(0)
}
