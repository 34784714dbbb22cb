module secemb/bench

go 1.24

require secemb v0.0.0

replace secemb => ../
