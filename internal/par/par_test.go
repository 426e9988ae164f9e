package par

import (
	"sync/atomic"
	"testing"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		Do(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoEmpty(t *testing.T) {
	Do(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestMapOrdersResults(t *testing.T) {
	got := Map(8, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestWorkers(t *testing.T) {
	if workerCount(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if workerCount(0) < 1 || workerCount(-5) < 1 {
		t.Fatal("auto worker count must be at least 1")
	}
}
