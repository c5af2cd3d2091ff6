package main

import "syscall"

// childProcAttr makes the kernel SIGKILL a daemon whose parent dies without
// running its deferred clean-up (SIGKILL, fatal runtime error), so no path
// leaves an orphan costestd behind. The benchmark is Linux-only: it also
// reads /proc for CPU time and peak RSS.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
