"""Low-intersection set families from polynomial evaluation over GF(q).

Builds a few small fields (prime and extension), generates the families
whose q^(d*ell) members pairwise intersect in fewer than d points, verifies
them, and shows the trimming step used by the witness constructions.
"""

from hypersens import (
    generate_family,
    make_field,
    prime_power_in_range,
    trim_sets,
    verify_family,
)

print("== fields ==")
for p, m in [(5, 1), (2, 2), (3, 2)]:
    f = make_field(p, m)
    print(f"GF({f.order}): modulus coefficients (low degree first) = {f.modulus or '(prime field)'}")

gf4 = make_field(2, 2)
x = 2  # rank of the coefficient vector (0, 1)
xx = gf4.mul(x, x)
print(f"in GF(4): x * x = element with coefficients {(xx % 2, xx // 2)}  (x + 1)")
print(f"smallest prime power strictly between 5 and 10: {prime_power_in_range(5, 10)}")

print()
print("== families ==")
for (p, m), d, ell in [((2, 1), 1, 1), ((3, 1), 2, 1), ((2, 2), 2, 1), ((5, 1), 2, 1)]:
    field = make_field(p, m)
    fam = generate_family(field, d, ell)
    check = verify_family(fam)
    print(
        f"q={field.order}, d={d}, ell={ell}: {len(fam.sets)} sets of size "
        f"{fam.set_size} in [1, {fam.universe}], verified={check.ok}"
    )

print()
print("== trimming (each set keeps its smallest elements) ==")
fam = generate_family(make_field(5, 1), 2, 1)
trimmed = trim_sets(fam, 3)
print(f"before: first three sets {fam.sets[:3]}")
print(f"after : first three sets {trimmed.sets[:3]}")
print(f"pairwise intersections still below d: {verify_family(trimmed).ok}")
