c     A loop whose CALL has a COMMON side effect: tick advances the
c     clock in /clock/, which no statement of the loop names, so no
c     level of the loop may run in parallel.
      subroutine scale(n, a, t)
      integer n, i
      real a(n), t, total
      common /clock/ total
      do 10 i = 1, n
         a(i) = a(i) * 2.0
         call tick
   10 continue
      t = total
      end

      subroutine tick
      real total
      common /clock/ total
      total = total + 1.0
      if (total .ge. 10.0) total = 0.0
      end
