package main

import (
	"math/rand"
	"sync"
	"time"
)

// job is one scheduled request: its index in the schedule and the offset
// from the step's start at which it is due.
type job struct {
	Seq int
	Due time.Duration
}

// poissonSchedule returns the due offsets of independent users arriving
// at rate per second for d: exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// stepResult is one open-loop step's measurements.
type stepResult struct {
	// Latency is each request's time from when it was due to when its
	// reply was complete, in ms; a failed request records +Inf.
	Latency []float64
	// Late is how far behind its due time the generator handed each
	// request over, in ms.
	Late []float64
	// Backlog is how many due requests were still waiting for a
	// connection when the last one fell due.
	Backlog int
	Failed  int
}

// openLoop sends a fixed schedule over conns connections regardless of
// how fast replies come back: a request that finds every connection busy
// waits in the queue, and that wait counts in its latency because
// latency runs from the due time, not the send time.
type openLoop struct {
	conns int
	// send performs request seq and reports whether it failed.
	send func(worker, seq int) error
	// sleep waits until a due time; tests substitute a slow one to check
	// that generator lateness is reported.
	sleep func(time.Duration)
}

func (o *openLoop) run(schedule []job) stepResult {
	res := stepResult{
		Latency: make([]float64, len(schedule)),
		Late:    make([]float64, len(schedule)),
	}
	sleep := o.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	// Buffered for the whole schedule: the generator must never block on
	// slow workers, or it would stop being an open loop.
	queue := make(chan job, len(schedule))
	start := time.Now()
	var mu sync.Mutex // guards res.Failed
	var wg sync.WaitGroup
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range queue {
				err := o.send(worker, j.Seq)
				lat := ms(time.Since(start.Add(j.Due)))
				if err != nil {
					mu.Lock()
					res.Failed++
					mu.Unlock()
					lat = inf
				}
				res.Latency[j.Seq] = lat
			}
		}(w)
	}
	for _, j := range schedule {
		if wait := time.Until(start.Add(j.Due)); wait > 0 {
			sleep(wait)
		}
		res.Late[j.Seq] = ms(time.Since(start.Add(j.Due)))
		queue <- j
	}
	res.Backlog = len(queue)
	close(queue)
	wg.Wait()
	return res
}
