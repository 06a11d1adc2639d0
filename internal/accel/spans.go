package accel

import (
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// span is one buffer an invocation streams, for locality classification
// (paper §3.3: data should reside in the accelerator's Local Memory Stack;
// remote-stack traffic crosses the inter-stack high-speed links).
type bufSpan struct {
	Addr  phys.Addr
	Bytes units.Bytes
}

// spansOf lists the DRAM buffers one invocation touches, with the bytes
// each is billed. The layer classifies each against the stack map to find
// remote traffic.
func spansOf(op descriptor.OpCode, p descriptor.Params) ([]bufSpan, error) {
	e := SpecOf(op)
	if e == nil {
		return nil, nil
	}
	set, _, err := e.operands(p, false)
	if err != nil {
		return nil, err
	}
	ops := set.ops[:set.n]
	if e.alias == aliasMerged && ops[0].Addr == ops[1].Addr {
		return []bufSpan{{ops[0].Addr, ops[0].Traffic + ops[1].Traffic}}, nil
	}
	out := make([]bufSpan, len(ops))
	for i, o := range ops {
		out[i] = bufSpan{o.Addr, o.Traffic}
	}
	return out, nil
}

// remoteBytes sums the traffic of spans living outside the home stack.
func (c *Config) remoteBytes(op descriptor.OpCode, p descriptor.Params) (units.Bytes, error) {
	if c.StackOf == nil {
		return 0, nil
	}
	spans, err := spansOf(op, p)
	if err != nil {
		return 0, err
	}
	var remote units.Bytes
	for _, s := range spans {
		if stack := c.StackOf(s.Addr); stack >= 0 && stack != c.HomeStack {
			remote += s.Bytes
		}
	}
	return remote, nil
}

// remotePenalty converts remote traffic to the extra time and energy of
// crossing the inter-stack links instead of the local TSVs.
func (c *Config) remotePenalty(remote units.Bytes) (units.Seconds, units.Joules) {
	if remote <= 0 || c.RemoteLinkBW <= 0 {
		return 0, 0
	}
	linkT := c.RemoteLinkBW.Time(remote)
	localT := c.StreamBandwidth().Time(remote)
	extra := linkT - localT
	if extra < 0 {
		extra = 0
	}
	energy := units.Joules(float64(remote) * 8 * float64(c.ELinkBit))
	return extra, energy
}
