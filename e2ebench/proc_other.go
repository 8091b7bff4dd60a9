//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// Binding processes to CPUs and reading a process's peak resident set
// as it runs are Linux-only; elsewhere nothing is bound and the peak
// comes from the finished process.

func allowedCPUs() ([]int, error) { return nil, nil }

func pinProcess(cpu int) error { return nil }

func startOn(cmd *exec.Cmd, cpu, home int) error { return cmd.Start() }

var errNoProc = errors.New("no /proc")

func resetPeakRSS(pid int) error { return errNoProc }

func peakRSSMB(pid int) (float64, error) { return 0, errNoProc }
