module sereth/bench

go 1.24

require sereth v0.0.0

replace sereth => ../
