module influmax/benchmark

go 1.22

require influmax v0.0.0

replace influmax => ../
