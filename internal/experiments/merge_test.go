package experiments

import (
	"math"
	"reflect"
	"testing"
)

// TestMergeEveryField fills every numeric field of every registered point
// type with distinct values, merges two replicas, and checks each field
// against its rule: the sum, or what its merge tag says. A field added to a
// point type without a merge rule panics here rather than in a sweep.
func TestMergeEveryField(t *testing.T) {
	for _, e := range Registry() {
		t.Run(e.Name(), func(t *testing.T) {
			typ := e.pointType().Elem()
			dst, src := reflect.New(typ), reflect.New(typ)
			var f filler
			f.fillStruct(typ.String(), dst.Elem(), src.Elem(), "")
			if len(f.leaves) == 0 {
				t.Fatalf("%s has no numeric fields", typ)
			}
			e.merge(dst.Interface(), src.Interface())
			for _, l := range f.leaves {
				if got := number(l.dst); math.Abs(got-l.want) > 1e-9 {
					t.Errorf("%s: merged %v, want %v", l.path, got, l.want)
				}
			}
		})
	}
}

// filler assigns distinct values to the numeric fields of two replicas and
// records what each must merge to.
type filler struct {
	n      int
	leaves []mergeLeaf
}

type mergeLeaf struct {
	path string
	dst  reflect.Value
	want float64
}

func (f *filler) fill(path string, d, s reflect.Value, tag string, ra, rb float64) {
	if !d.CanSet() {
		return // unexported: merged only through its owner's Merge
	}
	if d.Kind() == reflect.Pointer {
		if m, _ := mergeMethod(d, s); m.IsValid() {
			return // the type's own Merge is tested with its type
		}
		if d.Type().Elem().Kind() != reflect.Struct {
			return
		}
		d.Set(reflect.New(d.Type().Elem()))
		s.Set(reflect.New(s.Type().Elem()))
		d, s = d.Elem(), s.Elem()
	}
	if m, _ := mergeMethod(d, s); m.IsValid() {
		return
	}
	switch {
	case d.Kind() == reflect.Struct:
		f.fillStruct(path, d, s, tag)
	case d.Kind() == reflect.Slice && numeric(d.Type().Elem().Kind()):
		d.Set(reflect.MakeSlice(d.Type(), 2, 2))
		s.Set(reflect.MakeSlice(s.Type(), 2, 2))
		for i := range 2 {
			f.fill(path, d.Index(i), s.Index(i), tag, ra, rb)
		}
	case numeric(d.Kind()):
		// Alternate which replica holds the larger value so max is tested
		// both ways.
		f.n++
		a, b := float64(10*f.n), float64(10*f.n+5)
		if f.n%2 == 0 {
			b = float64(10*f.n - 5)
		}
		setNumber(d, a)
		setNumber(s, b)
		want := a + b
		switch tag {
		case "first":
			want = a
		case "max":
			want = math.Max(a, b)
		case "mean":
			want = (a*ra + b*rb) / (ra + rb)
		}
		f.leaves = append(f.leaves, mergeLeaf{path, d, want})
	}
}

// fillStruct fills one struct's fields; a struct kept whole (tag first)
// passes its tag down to every field.
func (f *filler) fillStruct(path string, d, s reflect.Value, tag string) {
	t := d.Type()
	ra, rb := 1.0, 1.0
	for i := range t.NumField() {
		if t.Field(i).Tag.Get("merge") == "reps" {
			ra, rb = 2, 3
			d.Field(i).SetInt(2)
			s.Field(i).SetInt(3)
			f.leaves = append(f.leaves, mergeLeaf{path + "." + t.Field(i).Name, d.Field(i), 5})
		}
	}
	for i := range t.NumField() {
		ft := t.Field(i).Tag.Get("merge")
		if ft == "reps" {
			continue
		}
		if tag == "first" {
			ft = tag
		}
		f.fill(path+"."+t.Field(i).Name, d.Field(i), s.Field(i), ft, ra, rb)
	}
}

func setNumber(v reflect.Value, x float64) {
	switch {
	case v.CanInt():
		v.SetInt(int64(x))
	case v.CanUint():
		v.SetUint(uint64(x))
	default:
		v.SetFloat(x)
	}
}

func number(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	default:
		return v.Float()
	}
}
