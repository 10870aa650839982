package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func affinity(call uintptr, tid int, mask *cpuMask) error {
	_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToCPUs restricts the whole process to the first n CPUs it is allowed on.
// Every thread the Go runtime has started so far is pinned one by one; threads
// it starts later inherit the mask from the pinned thread that clones them.
// GOMAXPROCS alone is not enough: a goroutine inside a large socket write
// gives up its P, so kernel copies, page zeroing and the collector spill onto
// the second vCPU, whose speed the host decides (see defaultProcs).
func pinToCPUs(n int) error {
	var allowed, mask cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	picked := 0
	for cpu := 0; cpu < 64*len(allowed) && picked < n; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			mask[cpu/64] |= 1 << (cpu % 64)
			picked++
		}
	}
	if picked < n {
		return fmt.Errorf("asked for %d CPUs, allowed on %d", n, picked)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the listing; that is not an error.
		if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &mask); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}
