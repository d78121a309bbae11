"""Small synthetic loops used by unit and integration tests."""

from repro.workloads.record import Workload

SAXPY = """
      subroutine saxpy(n, a, x, y)
      integer n
      real a, x(n), y(n)
      integer i
      do i = 1, n
         y(i) = y(i) + a * x(i)
      end do
      end
"""

PRIVATE_TEMP = """
      subroutine ptmp(n, a, b)
      integer n
      real a(n), b(n)
      real t
      integer i
      do i = 1, n
         t = b(i)
         a(i) = sqrt(t)
      end do
      end
"""

SCALAR_SUM = """
      subroutine ssum(n, a, total)
      integer n
      real a(n), total
      integer i
      do i = 1, n
         total = total + a(i)
      end do
      end
"""

STENCIL_2D = """
      subroutine sten(n, m, u, v)
      integer n, m
      real u(n, m), v(n, m)
      integer i, j
      do j = 2, m - 1
         do i = 2, n - 1
            v(i, j) = 0.25 * (u(i - 1, j) + u(i + 1, j)
     &                + u(i, j - 1) + u(i, j + 1))
         end do
      end do
      end
"""

CASCADE = """
      subroutine casc(n, a, b, c, d, e, f, g, h)
      integer n
      real a(n), b(n), c(n), d(n), e(n), f(n), g(n), h(n)
      integer i
      do i = 2, n
         c(i) = d(i) + e(i)
         g(i) = f(i) * h(i)
         b(i) = a(i) + b(i - 1)
      end do
      end
"""

TRIANGULAR_GIV = """
      subroutine tgiv(n, a)
      integer n
      real a(n * (n + 1) / 2)
      integer i, j, k
      k = 0
      do i = 1, n
         do j = 1, i
            k = k + 1
            a(k) = real(i) + 0.5 * real(j)
         end do
      end do
      end
"""


def _casc_args(n, rng):
    return (n, *[rng.standard_normal(n) for _ in range(8)]), None


#: the fault sweep's oracle-only row (not a validation case): the one
#: program that restructures to DOACROSS, so the lost-sync fault class
#: runs end to end
CASCADE_WORKLOAD = Workload(name="cascade", suite="synthetic",
                            source=CASCADE, entry="casc",
                            make_args=_casc_args, n=24)

ALL_SOURCES = {
    "saxpy": SAXPY,
    "ptmp": PRIVATE_TEMP,
    "ssum": SCALAR_SUM,
    "sten": STENCIL_2D,
    "casc": CASCADE,
    "tgiv": TRIANGULAR_GIV,
}
