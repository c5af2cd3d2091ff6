package nn

// Get returns the named parameter, or nil if absent.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// Clock returns the set's current mutation counter.
func (ps *ParamSet) Clock() uint64 { return ps.clock }
