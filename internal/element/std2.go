package element

import (
	"fmt"
	"strconv"

	"nba/internal/packet"
)

func init() {
	Register("Paint", func() Element { return &Paint{} })
}

// Paint stamps a color into the packet's user annotation (Click's Paint).
// Parameter: the color (0..255).
type Paint struct {
	Base
	color uint64
}

// Class implements Element.
func (*Paint) Class() string { return "Paint" }

// Configure implements Element.
func (e *Paint) Configure(ctx *ConfigContext, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Paint needs one parameter (color)")
	}
	c, err := strconv.Atoi(args[0])
	if err != nil || c < 0 || c > 255 {
		return fmt.Errorf("Paint: bad color %q", args[0])
	}
	e.color = uint64(c)
	return nil
}

// Process implements Element.
func (e *Paint) Process(ctx *ProcContext, pkt *packet.Packet) int {
	pkt.Anno[packet.AnnoUser] = e.color
	return 0
}
