package core

import (
	"reflect"
	"testing"
)

// perPlanFacts are the Stats fields Add leaves alone: facts about the plan
// an execution ran, not counters.
var perPlanFacts = map[string]bool{
	"Groups": true, "UsedArrayAgg": true, "PrefilterTables": true, "PlanHit": true,
}

// counterLeaves calls fn on every counter field under v (a struct), by
// dotted path: integers and string-keyed integer maps, through embedded and
// nested structs. A field of any other kind fails the test, so a new field
// is classified here before it can be forgotten in Add.
func counterLeaves(t *testing.T, v reflect.Value, path string, fn func(string, reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if perPlanFacts[f.Name] {
			continue
		}
		switch fv.Kind() {
		case reflect.Struct:
			counterLeaves(t, fv, path+f.Name+".", fn)
		case reflect.Int, reflect.Int64, reflect.Map:
			fn(path+f.Name, fv)
		default:
			t.Fatalf("%s%s is a %s: neither a counter nor a per-plan fact", path, f.Name, fv.Kind())
		}
	}
}

// fillCounters gives every counter of *p a distinct value from *next, and
// every map a key of its own plus one all maps share.
func fillCounters(t *testing.T, p any, next *int64) {
	counterLeaves(t, reflect.ValueOf(p).Elem(), "", func(path string, v reflect.Value) {
		*next++
		if v.Kind() == reflect.Map {
			m := reflect.MakeMap(v.Type())
			m.SetMapIndex(reflect.ValueOf("shared"), reflect.ValueOf(*next).Convert(v.Type().Elem()))
			m.SetMapIndex(reflect.ValueOf(path), reflect.ValueOf(*next+1).Convert(v.Type().Elem()))
			v.Set(m)
			*next++
			return
		}
		v.SetInt(*next)
	})
}

// counterValues reads every counter of *p by path, maps as map[string]int64.
func counterValues(t *testing.T, p any) map[string]any {
	out := make(map[string]any)
	counterLeaves(t, reflect.ValueOf(p).Elem(), "", func(path string, v reflect.Value) {
		if v.Kind() != reflect.Map {
			out[path] = v.Int()
			return
		}
		m := make(map[string]int64)
		for _, k := range v.MapKeys() {
			m[k.String()] = v.MapIndex(k).Int()
		}
		out[path] = m
	})
	return out
}

// checkAddSums fills a and b with distinct counters, adds b into a copy of
// a, and checks that every counter of the result is the sum.
func checkAddSums[T any](t *testing.T, add func(dst, src *T)) {
	t.Helper()
	var a, b, got T
	n := int64(0)
	fillCounters(t, &a, &n)
	fillCounters(t, &b, &n)
	n = 0
	fillCounters(t, &got, &n)
	add(&got, &b)
	va, vb, vg := counterValues(t, &a), counterValues(t, &b), counterValues(t, &got)
	for path, x := range va {
		var want any
		switch x := x.(type) {
		case int64:
			want = x + vb[path].(int64)
		case map[string]int64:
			sum := make(map[string]int64)
			for _, m := range []map[string]int64{x, vb[path].(map[string]int64)} {
				for k, v := range m {
					sum[k] += v
				}
			}
			want = sum
		}
		if !reflect.DeepEqual(vg[path], want) {
			t.Errorf("%T.Add: %s = %v, want %v + %v = %v", a, path, vg[path], x, vb[path], want)
		}
	}
}

// TestStatsAddSumsEveryCounter: a counter field that Add forgets fails here
// instead of silently reading 0 in the database's cumulative stats.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	checkAddSums(t, func(dst, src *Stats) { dst.Add(src) })
	checkAddSums(t, func(dst, src *Counters) { dst.Add(src) })
}
