package cmp

// UseRoundRobinFF makes s fast-forward round-robin, the reference loop the
// core-major one must match.
func UseRoundRobinFF(s *System) {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	s.eng.coreMajor = false
	for _, c := range s.Cores {
		c.SetSharedLog(nil)
	}
}

// CoreMajorFF reports whether s fast-forwards core-major.
func CoreMajorFF(s *System) bool {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	return s.eng.coreMajor
}

// FFSegment exposes the records each core steps between log merges.
const FFSegment = ffSegment
