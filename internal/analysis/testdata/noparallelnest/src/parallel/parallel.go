// Package parallel is the fixture stand-in for the repo's worker-pool
// API; NoParallelNest matches its entry points by package name.
package parallel

// For runs body(i) for every i in [0, n).
func For(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// Do runs every task.
func Do(tasks ...func()) {
	for _, task := range tasks {
		task()
	}
}
