package ids

// States returns the automaton size.
func (t *scanTable) States() int { return len(t.first) }

// NaiveMatch is the reference multi-substring search for property tests.
func NaiveMatch(patterns []string, data []byte) int {
	best := -1
	str := string(data)
	for id, p := range patterns {
		if containsStr(str, p) && (best == -1 || id < best) {
			best = id
		}
	}
	return best
}

func containsStr(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
