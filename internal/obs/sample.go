package obs

// SampleCounter reads one counter series (direct or CounterFunc view)
// by (name, labels) without creating it. The bool is false when the
// series does not exist or is not a counter. The instrument reference
// is copied under the registry mutex and a pull-mode view is invoked
// after releasing it, mirroring exposition.
func (r *Registry) SampleCounter(name string, labels ...string) (uint64, bool) {
	switch inst := r.series(name, labels).(type) {
	case *Counter:
		return inst.Value(), true
	case func() uint64:
		return inst(), true
	}
	return 0, false
}

// SampleGauge is SampleCounter for gauge series (direct or GaugeFunc
// view).
func (r *Registry) SampleGauge(name string, labels ...string) (int64, bool) {
	switch inst := r.series(name, labels).(type) {
	case *Gauge:
		return inst.Value(), true
	case func() int64:
		return inst(), true
	}
	return 0, false
}

// series copies one series' instrument reference under the mutex (nil
// when absent).
func (r *Registry) series(name string, labels []string) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fam[name]; f != nil {
		return f.series[key]
	}
	return nil
}
