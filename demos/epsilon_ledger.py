"""Per-character ledgers for valuations of global epsilon constants.

For each character chi of the cover group, the valuation of the global
epsilon constant decomposes as r (g_base - 1) plus one local term per
ramified place: zero where chi is unramified, a Gauss sum valuation
where it is tame, and deg(q) cd / 2 where it is wild.  The script
prints the full ledger for a tame quartic cover and a wild cover,
computing every tame term through both available oracles.
"""

from epschar.covers import artin_schreier_cover, kummer_cover
from epschar.epsilon import E_element, global_epsilon_valuation
from epschar.groups import char_label


def show(cov, title):
    print(title)
    print(cov.summary())
    for chi in cov.characters():
        led_s = global_epsilon_valuation(cov, chi, oracle="stickelberger")
        led_p = global_epsilon_valuation(cov, chi, oracle="padic")
        assert led_s.total == led_p.total
        print("  " + led_s.describe())
    e = E_element(cov)
    terms = ", ".join("%s*%s" % (c, char_label(chi)) for chi, c in e.sorted_items())
    print("  E = %s (integral: %s)" % (terms or "0", e.is_integral()))
    print()


def main():
    show(kummer_cover(5, 4, [((0, 1), 2), ((3, 1), 1)]),
         "tame quartic: y^4 = x^2 (x + 3) over F_5")
    show(artin_schreier_cover(3, [((0, 1), -1), ((2, 1), -1)]),
         "wild cover: y^3 - y = f, poles at x and x + 2 over F_3")


if __name__ == "__main__":
    main()
