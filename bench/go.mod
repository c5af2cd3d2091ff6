module costest/bench

go 1.24

require costest v0.0.0

replace costest => ../
