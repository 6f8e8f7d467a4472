package wire

import (
	"reflect"
	"testing"
)

// fillNonZero sets every leaf of v to a non-zero value and every slice to one
// non-zero element, failing on a kind it does not know so that a new field
// type has to be taught here rather than slipping through.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), path+"[0]")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	default:
		t.Fatalf("%s: kind %v not handled", path, v.Kind())
	}
}

// TestResponsePoolResetsEveryField sets every Response field through
// reflection, puts the response back and gets one out: each field must come
// back zero, slices empty. A field added later that Put does not reset fails
// here.
func TestResponsePoolResetsEveryField(t *testing.T) {
	var p ResponsePool
	resp := p.Get()
	fillNonZero(t, reflect.ValueOf(resp).Elem(), "Response")
	p.Put(resp)
	got := p.Get()

	// The pool may drop what it was given (it does at random under -race), so
	// check the response Put reset as well as the one Get returned.
	for _, r := range []*Response{resp, got} {
		v := reflect.ValueOf(r).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			if f.Kind() == reflect.Slice {
				if f.Len() != 0 {
					t.Errorf("%s has %d elements after Put", name, f.Len())
				}
			} else if !f.IsZero() {
				t.Errorf("%s = %v after Put, want zero", name, f.Interface())
			}
		}
	}
	// Slices keep their backing arrays for the next response.
	if cap(resp.Objects) == 0 || cap(resp.Index) == 0 || cap(resp.UpdateResults) == 0 {
		t.Error("Put dropped slice capacity")
	}
	p.Put(nil) // ignored
}
