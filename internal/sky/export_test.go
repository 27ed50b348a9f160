package sky

// RingsAround exposes the ring builder to the external sky_test package.
var RingsAround = ringsAround
