package experiments

import (
	"testing"
	"time"
)

func TestSeriesBinsAverageAndOrder(t *testing.T) {
	s := newSeries(10*time.Second, 5*time.Second)
	s.add(11*time.Second, 2) // bin 0
	s.add(14*time.Second, 4) // bin 0
	s.add(4*time.Second, 7)  // bin -2
	s.add(21*time.Second, 9) // bin 2
	bins := s.bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0].Start != -10*time.Second || bins[0].Mean != 7 {
		t.Fatalf("bin0 = %+v", bins[0])
	}
	if bins[1].Start != 0 || bins[1].Mean != 3 || bins[1].Count != 2 {
		t.Fatalf("bin1 = %+v", bins[1])
	}
	if bins[2].Start != 10*time.Second || bins[2].Mean != 9 {
		t.Fatalf("bin2 = %+v", bins[2])
	}
}

func TestSeriesRatePerSecond(t *testing.T) {
	s := newSeries(0, 10*time.Second)
	for i := 0; i < 50; i++ {
		s.add(time.Duration(i)*100*time.Millisecond, 1) // 50 events in 5 s
	}
	bins := s.ratePerSecond()
	if len(bins) != 1 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].Mean != 5 { // 50 events / 10 s bin
		t.Fatalf("rate = %v, want 5/s", bins[0].Mean)
	}
}
