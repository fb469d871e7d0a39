package scheduler

// MostFreeServer exposes the most-free placement rule that Capacity and
// CAM's map pass share, so the external tests can pre-place maps with it.
var MostFreeServer = mostFreeServer
