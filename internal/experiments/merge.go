package experiments

import (
	"fmt"
	"reflect"
)

// Replica merging. The runner folds every replica of a point into replica 0
// in ascending order; mergeReplica does the fold for every point type, field
// by field, so a new counter on a point type merges without merge code:
//
//   - numeric fields sum, and numeric slices sum element-wise;
//   - string fields keep replica 0's value (they are point labels);
//   - struct and pointer-to-struct fields recurse;
//   - a field whose type has a Merge method uses it: stats.Sample pools,
//     stats.Summary folds moments, obs.Registry adds series;
//   - a `merge:"..."` struct tag overrides the default:
//     first keeps replica 0's value (canonical traces, hashes, axes),
//     max keeps the larger value, mean is the replica-weighted mean, and
//     reps marks the struct's replica counter (0 or 1 means one run).
//
// A point type that defines Merge itself keeps it: mergeReplica defers to it.
func mergeReplica[P any](dst, src P) {
	if m, ok := any(dst).(interface{ Merge(P) }); ok {
		m.Merge(src)
		return
	}
	mergeFields(dst, src)
}

// mergeFields folds *src into *dst by the rules above, ignoring any Merge
// method of the top-level type itself.
func mergeFields(dst, src any) {
	mergeStruct(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func mergeStruct(d, s reflect.Value) {
	t := d.Type()
	// Replica weights for mean fields: the counts before this fold.
	ra, rb := 0.0, 0.0
	for i := range t.NumField() {
		if t.Field(i).Tag.Get("merge") == "reps" {
			ra, rb = float64(max(1, d.Field(i).Int())), float64(max(1, s.Field(i).Int()))
		}
	}
	for i := range t.NumField() {
		f := t.Field(i)
		df, sf := d.Field(i), s.Field(i)
		switch tag := f.Tag.Get("merge"); tag {
		case "first":
		case "max":
			if less(df, sf) {
				df.Set(sf)
			}
		case "mean":
			if ra == 0 {
				panic(fmt.Sprintf("experiments: %s.%s is a mean but %s has no reps field", t, f.Name, t))
			}
			df.SetFloat((df.Float()*ra + sf.Float()*rb) / (ra + rb))
		case "reps":
			df.SetInt(int64(ra + rb))
		case "":
			mergeValue(t.String()+"."+f.Name, df, sf)
		default:
			panic(fmt.Sprintf("experiments: %s.%s has unknown merge tag %q", t, f.Name, tag))
		}
	}
}

func mergeValue(path string, d, s reflect.Value) {
	if d.Kind() == reflect.Pointer {
		switch {
		case s.IsNil():
			return
		case d.IsNil():
			d.Set(s)
			return
		}
	}
	if m, arg := mergeMethod(d, s); m.IsValid() {
		if out := m.Call([]reflect.Value{arg}); len(out) == 1 && !out[0].IsNil() {
			panic(fmt.Sprintf("experiments: merge %s: %v", path, out[0].Interface()))
		}
		return
	}
	switch d.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.SetInt(d.Int() + s.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.SetUint(d.Uint() + s.Uint())
	case reflect.Float32, reflect.Float64:
		d.SetFloat(d.Float() + s.Float())
	case reflect.String:
	case reflect.Struct:
		mergeStruct(d, s)
	case reflect.Pointer:
		if d.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("experiments: no merge rule for %s (%s); tag it", path, d.Type()))
		}
		mergeStruct(d.Elem(), s.Elem())
	case reflect.Slice:
		if !numeric(d.Type().Elem().Kind()) {
			panic(fmt.Sprintf("experiments: no merge rule for %s (%s); tag it", path, d.Type()))
		}
		if d.Len() != s.Len() {
			panic(fmt.Sprintf("experiments: merging %s of mismatched lengths %d and %d", path, d.Len(), s.Len()))
		}
		for i := range d.Len() {
			mergeValue(path, d.Index(i), s.Index(i))
		}
	default:
		panic(fmt.Sprintf("experiments: no merge rule for %s (%s); tag it", path, d.Type()))
	}
}

// mergeMethod finds a Merge method on d's type taking d's own type (or a
// pointer to it), and the argument to call it with.
func mergeMethod(d, s reflect.Value) (reflect.Value, reflect.Value) {
	recv := d
	if d.Kind() != reflect.Pointer {
		recv = d.Addr()
	}
	m := recv.MethodByName("Merge")
	if !m.IsValid() || m.Type().NumIn() != 1 || m.Type().NumOut() > 1 {
		return reflect.Value{}, reflect.Value{}
	}
	switch m.Type().In(0) {
	case d.Type():
		return m, s
	case reflect.PointerTo(d.Type()):
		return m, s.Addr()
	}
	return reflect.Value{}, reflect.Value{}
}

func numeric(k reflect.Kind) bool {
	return k >= reflect.Int && k <= reflect.Float64
}

// less orders two numeric values of the same kind.
func less(a, b reflect.Value) bool {
	switch {
	case a.CanInt():
		return a.Int() < b.Int()
	case a.CanUint():
		return a.Uint() < b.Uint()
	case a.CanFloat():
		return a.Float() < b.Float()
	}
	panic(fmt.Sprintf("experiments: merge:\"max\" on non-numeric %s", a.Type()))
}
