//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &m); err != nil {
		return nil, err
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread binds thread tid (0: the calling thread) to cpu.
func pinThread(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	return schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &m)
}

// pinProcess binds every thread of this process to cpu. A thread started
// later inherits the binding of the thread that starts it; the second
// pass catches one started by a thread the first pass had not reached.
func pinProcess(cpu int) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if err := pinThread(tid, cpu); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// startOn starts cmd bound to cpu. A child inherits the binding of the
// thread that forks it, so the calling thread is bound to cpu for the
// fork and to home again afterwards.
func startOn(cmd *exec.Cmd, cpu, home int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := pinThread(0, cpu); err != nil {
		return err
	}
	err := cmd.Start()
	if perr := pinThread(0, home); err == nil {
		err = perr
	}
	return err
}

// resetPeakRSS restarts process pid's peak resident set (VmHWM) from its
// current resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB is process pid's peak resident set (VmHWM) in MiB since it
// started or since the last resetPeakRSS.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.Atoi(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(v), []byte("kB")))))
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}
