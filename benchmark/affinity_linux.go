//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel cpu_set_t wide enough for 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) (cpuMask, error) {
	var m cpuMask
	for _, c := range cpus {
		if c < 0 || c >= len(m)*64 {
			return m, fmt.Errorf("affinity: cpu %d out of range", c)
		}
		m[c/64] |= 1 << (c % 64)
	}
	return m, nil
}

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setAffinity pins one kernel task (0 = the calling thread).
func setAffinity(tid int, cpus []int) error {
	m, err := maskOf(cpus)
	if err != nil {
		return err
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// pinSelf pins every thread of this process; threads the runtime creates
// later are cloned from a pinned one and inherit the mask.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpus); err != nil {
			return err
		}
	}
	return nil
}

// startPinned starts cmd with its affinity set to cpus. The mask is put on
// the forking thread, so the child has it before exec and none of its
// threads ever runs elsewhere; the thread then returns to restore.
func startPinned(cmd *exec.Cmd, cpus, restore []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, restore); rerr != nil && err == nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		err = rerr
	}
	return err
}
