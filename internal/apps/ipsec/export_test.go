package ipsec

// Highest returns the highest accepted sequence number.
func (w *ReplayWindow) Highest() uint32 { return w.highest }
