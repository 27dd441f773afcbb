// Package leakcheck holds test helpers that find what a component
// leaves behind: goroutines still running after Close, and strings
// that alias memory the component should not keep alive.
package leakcheck

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Goroutines waits up to two seconds for the goroutine count to fall
// back to before (exited goroutines may not be reaped at once) and
// returns the count it settled at. A count still above before fails the
// test with every goroutine's stack. Fewer is fine: a goroutine of an
// earlier test may have exited since before was taken.
func Goroutines(tb testing.TB, before int) int {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<20)
		tb.Fatalf("goroutines: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
	return after
}

// Overlaps reports whether the bytes of a and b share memory.
func Overlaps(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	alo := uintptr(unsafe.Pointer(unsafe.StringData(a)))
	blo := uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return alo < blo+uintptr(len(b)) && blo < alo+uintptr(len(a))
}

// Collectable arms a check on the allocation that holds s's bytes and
// returns a function reporting whether that allocation gets garbage
// collected: it runs the collector until a finalizer on the allocation
// fires or a second passes. Call it once the test holds no reference
// into the allocation other than through what is under test. s must be
// heap-allocated and at least 16 bytes long (smaller strings may share
// a block with unrelated data).
func Collectable(s string) func() bool {
	freed := make(chan struct{})
	runtime.SetFinalizer((*byte)(unsafe.StringData(s)), func(*byte) { close(freed) })
	return func() bool {
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			runtime.GC()
			select {
			case <-freed:
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		return false
	}
}

// Strings returns every non-empty string reachable from v through
// pointers, structs, slices and arrays.
func Strings(v any) []string {
	var out []string
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			if v.Len() > 0 {
				out = append(out, v.String())
			}
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return out
}
