package main

import (
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Go's timers fire up to a millisecond late in a process whose processors
// are otherwise idle (the runtime parks in epoll_wait, which counts in
// milliseconds), and a request sent a millisecond late reads as a
// millisecond of server latency. Sleeping in nanosleep instead is exact
// but holds the goroutine's processor in a system call, which starves the
// server of the two this machine has. An open-loop sender therefore
// sleeps on a timerfd: a kernel high-resolution timer that the Go runtime
// waits on like a socket, so the wake-up is tens of microseconds late and
// no processor is held meanwhile. late_us reports what is left.
//
// The sender also owns an OS thread pinned to one processor. Left to
// float, the sender's thread lands beside the server's or across from it
// at the whim of each process start, and a whole run then sits in one of
// two latency modes a third apart; pinned, every run pays the same
// (slightly higher) hand-off cost.

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

type itimerspec struct {
	interval, value syscall.Timespec
}

// pacer is one sender's timer.
type pacer struct {
	f   *os.File
	buf [8]byte
}

// newPacer locks the calling goroutine to its thread, pins the thread to
// processor cpu, and creates the timer. The goroutine must exit without
// unlocking, so that the pinned thread ends with it instead of going back
// to the runtime's pool.
func newPacer(cpu int) (*pacer, error) {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, os.NewSyscallError("sched_setaffinity", errno)
	}
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}
