// The benchmark is a module of its own so that it builds with its own
// build file; its import path sits under vignat/, which is what lets it
// import vignat/internal/... through the replace below.
module vignat/benchmark

go 1.22

require vignat v0.0.0

replace vignat => ../
