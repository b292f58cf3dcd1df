package publish

import (
	"sync"
	"testing"
)

type value struct{ gen uint64 }

func publishNext(c *Cell[value]) *value {
	return c.Publish(func(gen uint64) *value { return &value{gen: gen} })
}

func TestLoadBeforePublishIsNil(t *testing.T) {
	var c Cell[value]
	if v := c.Load(); v != nil {
		t.Fatalf("Load before Publish = %+v, want nil", v)
	}
}

func TestPublishNumbersFromOne(t *testing.T) {
	var c Cell[value]
	for want := uint64(1); want <= 3; want++ {
		got := publishNext(&c)
		if got.gen != want {
			t.Fatalf("publication %d built with gen %d", want, got.gen)
		}
		if c.Load() != got {
			t.Fatalf("Load after publication %d returned %+v, want the published value", want, c.Load())
		}
	}
}

// TestReadersSeeMonotoneGenerations loads from several goroutines while one
// goroutine publishes: a reader's generations never go down, and once it has
// seen a value it never sees nil again. Run it under -race.
func TestReadersSeeMonotoneGenerations(t *testing.T) {
	const publications, readers = 2000, 4
	var c Cell[value]
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for last < publications {
				v := c.Load()
				if v == nil {
					if last > 0 {
						t.Errorf("Load returned nil after gen %d", last)
						return
					}
					continue
				}
				if v.gen < last {
					t.Errorf("gen went down: %d after %d", v.gen, last)
					return
				}
				last = v.gen
			}
		}()
	}
	for range publications {
		publishNext(&c)
	}
	wg.Wait()
}
