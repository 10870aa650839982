// Package grid exercises NoParallelNest: region entries lexically
// inside a worker body silently serialise and are rejected.
package grid

import "parallel"

// Nested enters an inner region from inside the outer worker body.
func Nested(rows, cols int, cell func(r, c int)) {
	parallel.For(rows, func(r int) {
		parallel.For(cols, func(c int) { // want "inside a parallel worker body"
			cell(r, c)
		})
	})
}

// Flat collapses both dimensions into one region.
func Flat(rows, cols int, cell func(r, c int)) {
	parallel.For(rows*cols, func(i int) {
		cell(i/cols, i%cols)
	})
}

// NestedDo nests through the task-list entry point.
func NestedDo(tasks []func()) {
	parallel.Do(func() {
		parallel.Do(tasks...) // want "inside a parallel worker body"
	})
}

// Sequential entries are fine, and the escape hatch waives a
// documented graceful degradation.
func Sequential(n int, f, g func(i int)) {
	parallel.For(n, f)
	parallel.For(n, g)
	parallel.For(n, func(i int) {
		//lint:allow-parallelnest fixture: inner entry degrades gracefully by design
		parallel.Do(func() { f(i) })
	})
}
