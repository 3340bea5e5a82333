"""grosscalc: an exact symbolic calculator for the grossone numeral system.

The infinite unit G (grossone, also written as the circled-one glyph) is the
count of the whole set of natural numbers.  The calculator measures infinite
subsets of the naturals exactly, counts the numerals of positional systems
with infinitely many digits, and models weaker counting systems (Piraha,
Munduruku, calculus infinity, Cantor cardinals) as instruments with bounded
accuracy.  A small expression language with a REPL and CLI (``gc``) fronts
all of it, and a finite-substitution oracle cross-checks every count against
brute-force enumeration.
"""
