package mac

// FaultCounters aggregates protocol-failure accounting shared by the
// discrete-event MACs (this package) and the emulator (package emu).
// Every field counts events, not frames in flight, so counters from
// different layers can be added together.
type FaultCounters struct {
	// FramesLost counts frames the medium dropped in transit, in either
	// direction (uplink data/reports, downlink polls/triggers/ACKs).
	FramesLost int
	// CRCRejects counts frames discarded by the CRC-32 check in package
	// frame after payload corruption.
	CRCRejects int
	// Retries counts transmission attempts beyond the first: slot
	// re-executions in the emulator, post-collision re-contentions in the
	// serial baseline.
	Retries int
	// TimedOutSlots counts solicited slots that resolved with at least one
	// expected transmission missing, forcing the AP to wait out the slot.
	TimedOutSlots int
	// Stalls counts station freeze events injected by the fault model.
	Stalls int
}

// Total is the sum of all counters — a quick "anything went wrong?" probe.
func (c FaultCounters) Total() int {
	return c.FramesLost + c.CRCRejects + c.Retries + c.TimedOutSlots + c.Stalls
}

// Add accumulates o into c.
func (c *FaultCounters) Add(o FaultCounters) {
	c.FramesLost += o.FramesLost
	c.CRCRejects += o.CRCRejects
	c.Retries += o.Retries
	c.TimedOutSlots += o.TimedOutSlots
	c.Stalls += o.Stalls
}
