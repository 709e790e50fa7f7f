module heracles

go 1.24
