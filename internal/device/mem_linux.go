package device

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// On Linux Mem's delivery goroutine sleeps on a timerfd: a kernel
// high-resolution timer that the runtime's netpoller waits on like a
// socket, so a 150 µs due time is met within tens of microseconds while
// the goroutine holds no processor. The raw descriptor is kept for
// timerfd_settime; (*os.File).Fd would switch the file to blocking mode
// and take it out of the netpoller.

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval, value syscall.Timespec
}

type timerfdAlarm struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// newAlarm returns a timerfd alarm, or the portable timer where the
// kernel refuses a timerfd (for instance when out of descriptors).
func newAlarm() alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return newTimerAlarm()
	}
	return &timerfdAlarm{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (a *timerfdAlarm) set(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value disarms the timer
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// The only failures are a closed descriptor or an invalid value, and
	// neither can reach here: the alarm is closed after the delivery
	// goroutine exits, and spec is a positive relative time.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait reads the expiration count. A read error (only once closed) just
// returns, like an early wake.
func (a *timerfdAlarm) wait() { a.f.Read(a.buf[:]) }

func (a *timerfdAlarm) close() { a.f.Close() }
