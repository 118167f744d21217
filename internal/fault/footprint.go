package fault

import (
	"reflect"
	"sort"

	"itr/internal/isa"
	"itr/internal/pipeline"
)

// snapshotStateBytes is the heap the snapshot series retains beyond memory
// pages: the cache lines, predictor tables, ROB columns and detector state
// each capture copies. It is the union of the memory ranges reachable from
// the snapshots, so an allocation several snapshots share counts once.
// Memory pages are counted by page ID instead, and the capture-time
// pipeline.Config is shared configuration, not captured state.
func snapshotStateBytes(snaps []*pipeline.Snapshot) int64 {
	f := footprint{
		skip: map[reflect.Type]bool{
			reflect.TypeOf((*isa.Memory)(nil)): true,
			reflect.TypeOf(pipeline.Config{}):  true,
		},
		walked:   make(map[uintptr]bool),
		pointers: make(map[reflect.Type]bool),
	}
	for _, s := range snaps {
		f.walk(reflect.ValueOf(s))
	}
	sort.Slice(f.spans, func(i, j int) bool { return f.spans[i][0] < f.spans[j][0] })
	total, end := f.unaddressed, uintptr(0)
	for _, sp := range f.spans {
		lo := max(sp[0], end)
		if sp[1] > lo {
			total += int64(sp[1] - lo)
			end = sp[1]
		}
	}
	return total
}

// footprint collects the memory ranges reachable from walked values.
type footprint struct {
	skip        map[reflect.Type]bool
	spans       [][2]uintptr // [start, end) of every pointed-to object and slice array
	unaddressed int64        // map entries and boxed interface values, which have no range
	walked      map[uintptr]bool
	pointers    map[reflect.Type]bool // memoized hasPointers
}

func (f *footprint) walk(v reflect.Value) {
	t := v.Type()
	if f.skip[t] || !f.hasPointers(t) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && f.enter(v.Pointer(), t.Elem().Size()) {
			f.walk(v.Elem())
		}
	case reflect.Slice:
		if v.Cap() > 0 && f.enter(v.Pointer(), uintptr(v.Cap())*t.Elem().Size()) && f.hasPointers(t.Elem()) {
			for i := 0; i < v.Len(); i++ {
				f.walk(v.Index(i))
			}
		}
	case reflect.Map:
		if v.IsNil() || f.walked[v.Pointer()] {
			return
		}
		f.walked[v.Pointer()] = true
		f.unaddressed += int64(v.Len()) * int64(t.Key().Size()+t.Elem().Size())
		for it := v.MapRange(); it.Next(); {
			f.walk(it.Key())
			f.walk(it.Value())
		}
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		if e.Kind() != reflect.Pointer {
			f.unaddressed += int64(e.Type().Size())
		}
		f.walk(e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.walk(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.walk(v.Index(i))
		}
	}
}

// enter records the range [p, p+size) and reports whether the object at p
// has not been walked yet.
func (f *footprint) enter(p, size uintptr) bool {
	f.spans = append(f.spans, [2]uintptr{p, p + size})
	if f.walked[p] {
		return false
	}
	f.walked[p] = true
	return true
}

// hasPointers reports whether values of t can reach heap memory.
func (f *footprint) hasPointers(t reflect.Type) bool {
	if has, ok := f.pointers[t]; ok {
		return has
	}
	has := false
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		has = true
	case reflect.Array:
		has = f.hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField() && !has; i++ {
			has = f.hasPointers(t.Field(i).Type)
		}
	}
	f.pointers[t] = has
	return has
}
