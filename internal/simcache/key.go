package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"github.com/nal-epfl/wehey/internal/measure"
)

// Key addresses one cached result: the SHA-256 of the schema stamp, the
// spec's type fingerprint, and the canonical encoding of its value.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor derives the cache key for spec under a schema stamp. The key
// covers every field of spec at any depth, by construction: struct fields
// in declaration order, slices (length-prefixed) and arrays, with bools as
// one byte and ints, uints, floats (by bit pattern) and strings in the
// little-endian primitives of internal/measure. The type's shape — its
// name, and each keyed field's name, tag and type — is hashed in too, so
// a struct change orphans old entries by itself; a stamp only records
// changes in meaning. A field tagged `cache:"-"` is left out; an
// unexported field must carry the tag. KeyFor panics, naming the field
// path, on maps, pointers, interfaces, funcs and chans: spec types are
// program-internal, and a test keys each of them.
func KeyFor(stamp string, spec any) Key {
	v := reflect.ValueOf(spec)
	c := codecFor(v.Type())
	b := make([]byte, 0, 256)
	b = measure.AppendString(b, stamp)
	b = append(b, c.shape[:]...)
	return Key(sha256.Sum256(c.enc(b, v)))
}

// encFn appends the canonical encoding of v.
type encFn func(b []byte, v reflect.Value) []byte

// keyCodec is the compiled key encoding of one type.
type keyCodec struct {
	shape [sha256.Size]byte
	enc   encFn
}

var codecs sync.Map // reflect.Type -> *keyCodec

func codecFor(t reflect.Type) *keyCodec {
	if c, ok := codecs.Load(t); ok {
		return c.(*keyCodec)
	}
	var shape strings.Builder
	enc := compile(t, t.String(), &shape)
	c, _ := codecs.LoadOrStore(t, &keyCodec{shape: sha256.Sum256([]byte(shape.String())), enc: enc})
	return c.(*keyCodec)
}

// compile builds the encoder for t and writes its shape: the type's name
// if it has one, its kind, and the shapes of its elements or keyed
// fields. path names t's position inside the spec type for panic
// messages.
func compile(t reflect.Type, path string, shape *strings.Builder) encFn {
	name := ""
	if t.Name() != "" {
		name = t.String()
	}
	fmt.Fprintf(shape, "%s(%s)", name, t.Kind())
	switch t.Kind() {
	case reflect.Bool:
		return func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) []byte { return measure.AppendInt64(b, v.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(b []byte, v reflect.Value) []byte { return measure.AppendUint64(b, v.Uint()) }
	case reflect.Float32, reflect.Float64:
		return func(b []byte, v reflect.Value) []byte { return measure.AppendFloat64(b, v.Float()) }
	case reflect.String:
		return func(b []byte, v reflect.Value) []byte { return measure.AppendString(b, v.String()) }
	case reflect.Slice, reflect.Array:
		prefixLen := t.Kind() == reflect.Slice
		if !prefixLen {
			fmt.Fprintf(shape, "%d", t.Len()) // an array's length is in its shape
		}
		shape.WriteString("[")
		elem := compile(t.Elem(), path+"[]", shape)
		shape.WriteString("]")
		return func(b []byte, v reflect.Value) []byte {
			if prefixLen {
				b = measure.AppendUint64(b, uint64(v.Len()))
			}
			for i := 0; i < v.Len(); i++ {
				b = elem(b, v.Index(i))
			}
			return b
		}
	case reflect.Struct:
		var fields []int
		var encs []encFn
		shape.WriteString("{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("cache") == "-" {
				continue
			}
			if !f.IsExported() {
				panic(fmt.Sprintf("simcache: cannot key %s.%s: unexported field; export it or tag it `cache:\"-\"`", path, f.Name))
			}
			fmt.Fprintf(shape, "%s %q ", f.Name, f.Tag)
			fields = append(fields, i)
			encs = append(encs, compile(f.Type, path+"."+f.Name, shape))
			shape.WriteString(";")
		}
		shape.WriteString("}")
		return func(b []byte, v reflect.Value) []byte {
			for k, i := range fields {
				b = encs[k](b, v.Field(i))
			}
			return b
		}
	}
	panic(fmt.Sprintf("simcache: cannot key %s: unsupported kind %s", path, t.Kind()))
}
