// Package maporder is an anyoptlint self-test fixture: each want-comment
// pins a diagnostic the maporder check must produce on that line, and every
// undecorated pattern must stay silent.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

func keysUnsorted(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k) // want "appends to slice out"
	}
	return out
}

func keysSorted(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func keysSortSlice(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sumValues(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func countKeys(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func invert(m map[int]string) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func keyedSliceWrite(m map[int]string, dst []string) {
	for k, v := range m {
		dst[k] = v
	}
}

func keyDerivedSliceWrite(m map[int]string, dst []string) {
	for k, v := range m {
		dst[k-1] = v
	}
}

func positionalSliceWrite(m map[int]string, dst []string) {
	i := 0
	for _, v := range m {
		dst[i] = v // want "writes element of dst at a loop-dependent position"
		i++
	}
}

func render(m map[string]int, b *strings.Builder) {
	for k := range m {
		fmt.Fprintf(b, "%s\n", k) // want "writes to b via fmt.Fprintf"
	}
}

func builderMethod(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want "writes to b"
	}
}

func localBuilder(m map[string]int) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		var b strings.Builder
		fmt.Fprintf(&b, "%s=%d", k, v)
		out[k] = b.String()
	}
	return out
}

func printer(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "prints to stdout via fmt.Println"
	}
}

func send(m map[int]bool, ch chan int) {
	for k := range m {
		ch <- k // want "sends to channel ch"
	}
}

func concat(m map[int]string) string {
	s := ""
	for _, v := range m {
		s += v // want "concatenates onto string s"
	}
	return s
}

type recorder struct{ rows []string }

func (r *recorder) AddRow(s string)  { r.rows = append(r.rows, s) }
func (r *recorder) SetName(s string) {}

func record(m map[string]bool, r *recorder) {
	for k := range m {
		r.AddRow(k) // want "calls r.AddRow, which records results in map order"
	}
}

func keyedSetter(m map[string]bool, r *recorder) {
	for k := range m {
		r.SetName(k)
	}
}
