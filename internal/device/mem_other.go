//go:build !linux

package device

func newAlarm() alarm { return newTimerAlarm() }
