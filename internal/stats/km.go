package stats

// CensoredExpMLE returns the maximum-likelihood exponential rate for
// right-censored data: lambda = (#events) / (total observed time at
// risk). ok is false when the estimate is degenerate.
func CensoredExpMLE(fired, censored []float64) (lambda float64, ok bool) {
	if len(fired) == 0 {
		return 0, false
	}
	var total float64
	for _, t := range fired {
		if t < 0 {
			return 0, false
		}
		total += t
	}
	for _, t := range censored {
		if t < 0 {
			return 0, false
		}
		total += t
	}
	if total <= 0 {
		return 0, false
	}
	return float64(len(fired)) / total, true
}
