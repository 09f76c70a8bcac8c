module bgla/bench

go 1.24

require bgla v0.0.0

replace bgla => ../
