package epoch

// Current returns the current epoch E.
func (m *Manager) Current() uint64 { return m.current.Load() }
