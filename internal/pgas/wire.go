package pgas

import "reflect"

// WireSizeOf returns a lower bound on the wire bytes needed to ship v: the
// packed size of its fields with no framing, alignment or length prefixes.
// Fixed-width integers and floats count their width (ints and uints count 8,
// as the simulated wire format does not narrow them), bools and bytes count
// 1, strings and byte slices count their length, and slices, arrays, maps,
// pointers and structs count the packed sizes of what they contain.
//
// The per-struct WireSize methods used at route and emit call sites must stay
// >= this bound; the wire-size regression tests assert exactly that, so the
// cost accounting cannot silently drift below the data actually moved.
func WireSizeOf(v any) int {
	if v == nil {
		return 0
	}
	return wireSize(reflect.ValueOf(v))
}

func wireSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64,
		reflect.Uintptr, reflect.Float64:
		return 8
	case reflect.Complex64:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return v.Len()
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			return v.Len()
		}
		total := 0
		for i := 0; i < v.Len(); i++ {
			total += wireSize(v.Index(i))
		}
		return total
	case reflect.Map:
		total := 0
		iter := v.MapRange()
		for iter.Next() {
			total += wireSize(iter.Key()) + wireSize(iter.Value())
		}
		return total
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return wireSize(v.Elem())
	case reflect.Struct:
		total := 0
		for i := 0; i < v.NumField(); i++ {
			total += wireSize(v.Field(i))
		}
		return total
	default:
		// Channels, funcs and unsafe pointers have no wire representation.
		return 0
	}
}
