package emu

// SetDefaultProfile replaces the profile used for pairs without an entry.
func (t *LinkTable) SetDefaultProfile(p LinkProfile) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.def = p
}
