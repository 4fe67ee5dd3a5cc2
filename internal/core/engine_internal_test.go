package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"rocksalt/internal/flight"
)

// heldRefs appends to out the path of every field of v that holds a
// pointer, slice, map, channel, func or interface, skipping the sync
// and sync/atomic types, whose references are a pool's own.
func heldRefs(v reflect.Value, path string, out []string) []string {
	switch v.Kind() {
	case reflect.Struct:
		if pkg := v.Type().PkgPath(); pkg == "sync" || pkg == "sync/atomic" {
			return out
		}
		for i := 0; i < v.NumField(); i++ {
			out = heldRefs(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = heldRefs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		if !v.IsNil() {
			out = append(out, path)
		}
	}
	return out
}

// TestListPlanRelease pins that a pooled plan keeps nothing of the call
// that last ran it: after parsePlan runs a re-parse list on two workers
// with a flight recorder, the plan it put back holds no reference
// beyond its own synchronization. One left behind would keep a caller's
// image alive for as long as the plan sits in the pool.
func TestListPlanRelease(t *testing.T) {
	c, err := NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat(summaryTile(), 4)
	fr := flight.NewRecorder(0)
	recycled := 0
	for i := 0; i < 20; i++ {
		sc := getScratch(len(img), shardCount(len(img)))
		stage1{c: c, code: img, sc: sc, fr: fr, frun: fr.BeginRun()}.parsePlan(context.Background(), 2, []int{0, 1, 2, 3})
		putScratch(sc)
		l := listPlanPool.Get().(*listPlan)
		if l.next.Load() > 0 { // a plan that ran
			recycled++
			if refs := heldRefs(reflect.ValueOf(l).Elem(), "listPlan", nil); len(refs) > 0 {
				t.Fatalf("a pooled plan still holds %v", refs)
			}
		}
		listPlanPool.Put(l)
	}
	if recycled == 0 {
		t.Fatal("the pool never handed back a plan that had run")
	}
}
