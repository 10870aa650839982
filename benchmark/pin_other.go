//go:build !linux

package main

import "errors"

// pinToCPUs is only implemented on Linux, where the baseline is taken.
func pinToCPUs(int) error { return errors.New("CPU pinning needs Linux") }
