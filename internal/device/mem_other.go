//go:build !linux

package device

func newAlarm() alarm { return newTimerAlarm() }

func allocExtent(n int) []byte { return make([]byte, n) }

func freeExtent([]byte) {}
