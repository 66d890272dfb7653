module goingwild/bench

go 1.22

require goingwild v0.0.0

replace goingwild => ../
