package window

// Tabled reports whether Design answers (b, β, κ bound) from designTable.
func Tabled(b int, beta, kappaMax float64) bool {
	_, ok := newCell(b, beta, kappaMax).lookup()
	return ok
}

// Scan is Design without the table: it always runs the search.
func Scan(b int, beta, kappaMax float64) DesignResult {
	c := newCell(b, beta, kappaMax)
	return c.result(c.scan())
}
