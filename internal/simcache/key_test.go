package simcache_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/simcache"
	"github.com/nal-epfl/wehey/internal/twin/validate"
)

// TestSpecKeysCompleteByConstruction is the property that makes a cache
// key sound, checked for every spec type the repository keys (typed as
// its call site keys it):
//   - changing any keyed field, at any depth, or a slice's length,
//     changes the key;
//   - changing a field tagged `cache:"-"` (a point's Name or Tol) does not;
//   - a struct rebuilt with one field added, renamed or retyped keys
//     differently for equal values. The variants encode to the same bytes
//     as the original, so only the shape fingerprint tells them apart.
func TestSpecKeysCompleteByConstruction(t *testing.T) {
	for _, c := range []struct {
		spec       func() any // a fresh value per call: mutations never share slices
		hasIgnored bool
	}{
		{func() any { return experiments.SimSpec{} }, false},
		{func() any { return experiments.FleetCampaignSpec{ThrottledISPs: []int{2, 5}, StarvedISPs: []int{11}} }, false},
		{func() any { return validate.TBFPoint{} }, true},
		{func() any { return validate.MG1Point{} }, true},
		{func() any {
			return struct {
				Point validate.HybridPoint
				Fluid bool
			}{}
		}, true},
	} {
		spec := reflect.ValueOf(c.spec())
		t.Run(spec.Type().String(), func(t *testing.T) {
			key := func(v reflect.Value) simcache.Key { return simcache.KeyFor("test/v1", v.Interface()) }
			base := key(spec)
			ignored := 0
			eachLeaf(spec, nil, spec.Type().String(), false, func(path []int, name string, excluded bool) {
				mod := reflect.New(spec.Type()).Elem()
				mod.Set(reflect.ValueOf(c.spec()))
				mutate(t, at(mod, path))
				switch changed := key(mod) != base; {
				case excluded && changed:
					t.Errorf("changing %s (tagged cache:\"-\") changed the key", name)
				case !excluded && !changed:
					t.Errorf("changing %s did not change the key", name)
				}
				if excluded {
					ignored++
				}
			})
			if c.hasIgnored != (ignored > 0) {
				t.Errorf("visited %d cache:\"-\" fields; want some: %v", ignored, c.hasIgnored)
			}

			// Variants are compared at their zero values, which encode alike.
			eachStruct(spec.Type(), nil, spec.Type().String(), func(path []int, name string, st reflect.Type) {
				reshaped := func(op func([]reflect.StructField) []reflect.StructField) simcache.Key {
					return key(reflect.New(reshape(spec.Type(), path, op)).Elem())
				}
				same := reshaped(func(fs []reflect.StructField) []reflect.StructField { return fs })
				if reshaped(func(fs []reflect.StructField) []reflect.StructField {
					return append(fs, reflect.StructField{Name: "Added", Type: reflect.TypeOf([0]int{})})
				}) == same {
					t.Errorf("adding a field to %s did not change the key", name)
				}
				for i := 0; i < st.NumField(); i++ {
					f := st.Field(i)
					if f.Tag.Get("cache") == "-" {
						continue
					}
					if reshaped(func(fs []reflect.StructField) []reflect.StructField { fs[i].Name += "X"; return fs }) == same {
						t.Errorf("renaming %s.%s did not change the key", name, f.Name)
					}
					if f.Type.Kind() != reflect.Struct && reshaped(func(fs []reflect.StructField) []reflect.StructField {
						fs[i].Type = retype(t, f.Type)
						return fs
					}) == same {
						t.Errorf("retyping %s.%s from %s did not change the key", name, f.Name, f.Type)
					}
				}
			})
		})
	}
}

// TestKeyForRejectsUnkeyableFields: kinds with no canonical encoding, and
// unexported fields, panic with the offending field path — unless the
// field is tagged out of the key.
func TestKeyForRejectsUnkeyableFields(t *testing.T) {
	for _, c := range []struct {
		spec any
		want string
	}{
		{struct{ P *int }{}, ".P: unsupported kind ptr"},
		{struct{ F func() }{}, ".F: unsupported kind func"},
		{struct{ Outer struct{ Inner []map[int]int } }{}, ".Outer.Inner[]: unsupported kind map"},
		{struct{ x int }{}, ".x: unexported field"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("KeyFor(%T) panicked with %q, want it to name %q", c.spec, msg, c.want)
				}
			}()
			simcache.KeyFor("v1", c.spec)
		}()
	}
	simcache.KeyFor("v1", struct {
		N int
		M map[string]int `cache:"-"`
		x int            `cache:"-"`
	}{})
}

// eachLeaf calls fn with the path to and name of every scalar and every
// slice in v, and whether a `cache:"-"` field encloses it. A path indexes
// struct fields and slice or array elements from the top.
func eachLeaf(v reflect.Value, path []int, name string, excluded bool, fn func([]int, string, bool)) {
	sub := func(i int) []int { return append(path[:len(path):len(path)], i) }
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			eachLeaf(v.Field(i), sub(i), name+"."+f.Name, excluded || f.Tag.Get("cache") == "-", fn)
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			fn(path, name, excluded) // the slice itself: grow it
		}
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), sub(i), fmt.Sprintf("%s[%d]", name, i), excluded, fn)
		}
	default:
		fn(path, name, excluded)
	}
}

// eachStruct calls fn with the path to, name and type of every keyed
// struct reachable from t through struct fields (t itself first).
func eachStruct(t reflect.Type, path []int, name string, fn func([]int, string, reflect.Type)) {
	fn(path, name, t)
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type.Kind() == reflect.Struct && f.Tag.Get("cache") != "-" {
			eachStruct(f.Type, append(path[:len(path):len(path)], i), name+"."+f.Name, fn)
		}
	}
}

// reshape rebuilds t as an unnamed struct, rebuilding every struct along
// path the same way and applying op to the fields of the last one.
func reshape(t reflect.Type, path []int, op func([]reflect.StructField) []reflect.StructField) reflect.Type {
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
	}
	if len(path) == 0 {
		return reflect.StructOf(op(fields))
	}
	fields[path[0]].Type = reshape(fields[path[0]].Type, path[1:], op)
	return reflect.StructOf(fields)
}

// retype maps a field type to another type of the same kind, so equal
// values encode to equal bytes.
func retype(t *testing.T, typ reflect.Type) reflect.Type {
	type (
		altBool    bool
		altInt     int
		altInt64   int64
		altFloat64 float64
		altString  string
	)
	if typ.Kind() == reflect.Slice {
		return reflect.SliceOf(retype(t, typ.Elem()))
	}
	for _, alt := range []any{altBool(false), altInt(0), altInt64(0), altFloat64(0), altString("")} {
		if a := reflect.TypeOf(alt); a.Kind() == typ.Kind() {
			return a
		}
	}
	t.Fatalf("retype: no alternative for %s; extend the property test", typ)
	return nil
}

// at navigates path from v.
func at(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return v
}

// mutate changes the scalar, or grows the slice, at v.
func mutate(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		t.Fatalf("mutate: unsupported kind %s; extend the property test", v.Kind())
	}
}
