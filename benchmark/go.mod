module soifft/benchmark

go 1.22

require soifft v0.0.0

replace soifft => ../
