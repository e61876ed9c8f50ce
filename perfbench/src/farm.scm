;; The scheme-farm workload: the master/slave farm of
;; examples/scheme/farm.scm at scale.  Each round the master forks
;; `nworkers` workers, keeps `window` jobs outstanding in the tuple space
;; until every job of the round has a result, then poisons the workers
;; and joins them with wait-for-all.
;;
;; The benchmark binds `bench-ts` (the tuple space) and `bench-jobs` (the
;; round's seeded jobs, a list of (id n m)) and provides `bench-clock-us`,
;; a monotonic microsecond clock.

(define (fib n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

;; A job's kernel: Scheme compute plus list allocation.
(define (kernel n m)
  (+ (fib n) (fold + 0 (map (lambda (x) (* x x)) (iota m)))))

(define (worker ts)
  (fork-thread
    (lambda ()
      (let loop ((done 0))
        (let ((job (ts-get ts (list 'job '? '? '?))))
          (if (< (car job) 0)
              (cons done (gc-stats))
              (begin
                (ts-put ts (list 'result (car job) (kernel (cadr job) (caddr job))))
                (loop (+ done 1)))))))))

(define (send-job! ts sent job)
  (vector-set! sent (car job) (bench-clock-us))
  (ts-put ts (cons 'job job)))

;; Takes any result: (id value latency-us done-us).
(define (take-result! ts sent)
  (let* ((r (ts-get ts (list 'result '? '?)))
         (now (bench-clock-us)))
    (list (car r) (cadr r) (- now (vector-ref sent (car r))) now)))

;; Returns (results worker-stats master-gc-stats); a worker's stats are
;; (jobs-done . gc-stats).
(define (run-round ts jobs nworkers window)
  (let ((workers (map (lambda (k) (worker ts)) (iota nworkers)))
        (sent (make-vector (length jobs) 0)))
    (let loop ((pending jobs) (in-flight 0) (results '()))
      (cond ((and (pair? pending) (< in-flight window))
             (send-job! ts sent (car pending))
             (loop (cdr pending) (+ in-flight 1) results))
            ((> in-flight 0)
             (loop pending (- in-flight 1) (cons (take-result! ts sent) results)))
            (else
             (for-each (lambda (w) (ts-put ts (list 'job -1 0 0))) workers)
             (list results (wait-for-all workers) (gc-stats)))))))
