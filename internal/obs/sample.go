package obs

// SampleCounter reads one counter series (direct or CounterFunc view)
// by (name, labels) without creating it. The bool is false when the
// series does not exist or is not a counter. The instrument reference
// is copied under the registry mutex and a pull-mode view is invoked
// after releasing it, mirroring exposition.
func (r *Registry) SampleCounter(name string, labels ...string) (uint64, bool) {
	key := labelKey(labels)
	r.mu.Lock()
	var inst any
	if f := r.fam[name]; f != nil {
		inst = f.series[key]
	}
	r.mu.Unlock()
	switch inst := inst.(type) {
	case *Counter:
		return inst.Value(), true
	case func() uint64:
		return inst(), true
	}
	return 0, false
}
