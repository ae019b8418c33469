package main

import "time"

// The benchmark measures real elapsed time, so it cannot run on the
// injectable clock.Clock like the program does; every wall-clock read
// and sleep is confined to this file so clockcheck keeps the rest of it
// honest.

func wallNow() time.Time {
	return time.Now() //overhaul:allow clockcheck the benchmark measures real elapsed time
}

func since(t time.Time) time.Duration { return wallNow().Sub(t) }

func until(t time.Time) time.Duration { return t.Sub(wallNow()) }

func wallSleep(d time.Duration) {
	time.Sleep(d) //overhaul:allow clockcheck open-loop pacing sleeps real time through coarse waits
}
