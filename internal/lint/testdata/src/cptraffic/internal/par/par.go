// Package par is a stub of the repo's worker pool with the same entry
// points, so the floatfold fixture can exercise its worker-closure
// check without importing the real module from inside testdata.
package par

// Do runs fn(w) for every worker w in [0, workers).
func Do(workers int, fn func(w int)) {
	for w := 0; w < workers; w++ {
		fn(w)
	}
}

// For runs fn(i) for every i in [0, n), strided across workers.
func For(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
