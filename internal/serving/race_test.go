//go:build race

package serving_test

func init() { raceDetector = true }
