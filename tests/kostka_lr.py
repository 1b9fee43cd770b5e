"""Check paths shared by the test modules."""

from isotypic import Partition, enumerate_partitions, kostka, lr_coefficient


def kostka_lr_split_multiplicity(mu, triv, sign):
    """The split multiplicity by the Kostka/LR route, the check path.

    The two halves of the inducing subgroup contribute independently: the
    trivial side expands with content ``triv``, the sign side expands with
    transposed shapes against content ``sign`` (inducing a sign factor
    twists every label), and the halves are glued by an LR coefficient.
    """
    mu, triv, sign = Partition(mu), Partition(triv), Partition(sign)
    total = 0
    for nu1 in enumerate_partitions(triv.weight):
        c1 = kostka(nu1, triv)
        if c1 == 0:
            continue
        for nu2 in enumerate_partitions(sign.weight):
            c2 = kostka(nu2.transpose(), sign)
            if c2 == 0:
                continue
            c = lr_coefficient(mu, nu1, nu2)
            if c:
                total += c1 * c2 * c
    return total
