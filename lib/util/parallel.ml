let default_jobs () = Domain.recommended_domain_count ()

(* OCaml 5.1 runs at most 128 domains in a process, the main one
   included ([Max_domains], caml/domain.h); past that [Domain.spawn]
   fails.  A serve daemon's pool workers and the domains of the requests
   they run add up, so one request for domains keeps to half the cap. *)
let max_jobs = 64

exception Worker of exn

let run ~jobs ~tasks ~init f =
  if jobs < 1 then invalid_arg "Parallel.run: jobs < 1";
  if tasks < 0 then invalid_arg "Parallel.run: tasks < 0";
  if tasks = 0 then [||]
  else begin
    let jobs = Stdlib.min jobs tasks in
    if jobs = 1 then begin
      (* Inline on the calling domain: no spawn, no atomics.  This is the
         path every small run (and every run on a 1-core host) takes. *)
      let st = init () in
      for i = 0 to tasks - 1 do
        f st i
      done;
      [| st |]
    end
    else begin
      let next = Atomic.make 0 in
      (* Work stealing off a shared counter: a worker that finishes its
         task grabs the next unclaimed index, so an uneven task mix still
         balances.  Task index -> output location must be a function of
         the index alone for the result to be schedule-independent. *)
      let worker () =
        let st = init () in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < tasks then begin
            f st i;
            loop ()
          end
        in
        loop ();
        st
      in
      (* Should the runtime refuse a domain, the workers already started
         carry on without it: a task's effect is a function of its index,
         so fewer workers leave the same words. *)
      let spawned = ref [] in
      (try
         for _ = 2 to jobs do
           spawned := Domain.spawn worker :: !spawned
         done
       with Failure _ -> ());
      let spawned = Array.of_list (List.rev !spawned) in
      let mine = try Ok (worker ()) with e -> Error e in
      let joined =
        Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
      in
      let states = Array.make (Array.length spawned + 1) None in
      let record slot = function
        | Ok st -> states.(slot) <- Some st
        | Error e -> raise (Worker e)
      in
      record 0 mine;
      Array.iteri (fun k r -> record (k + 1) r) joined;
      Array.map (function Some st -> st | None -> assert false) states
    end
  end

let for_ ~jobs ~tasks f = ignore (run ~jobs ~tasks ~init:(fun () -> ()) (fun () i -> f i))

let run_chunks ~jobs ~threshold ~n ~init f =
  if n < 0 then invalid_arg "Parallel.run_chunks: n < 0";
  if n > 0 then begin
    if jobs <= 1 || n < threshold then begin
      (* below the width threshold the spawn overhead dominates the work,
         so run the whole range inline with a single state *)
      let st = init () in
      f st 0 n
    end
    else begin
      (* more chunks than workers so an uneven per-index cost still
         balances over the shared counter; chunk boundaries are a function
         of [n] and [jobs] only, and every index lands in exactly one
         chunk, so writes to index-designated slots stay disjoint *)
      let ntasks = Stdlib.min n (jobs * 4) in
      let chunk = ((n + ntasks) - 1) / ntasks in
      ignore
        (run ~jobs ~tasks:ntasks ~init (fun st t ->
             let lo = t * chunk in
             let hi = Stdlib.min n (lo + chunk) in
             if lo < hi then f st lo hi))
    end
  end

module Pool = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t array;
    on_error : exn -> unit;
  }

  let worker_loop t () =
    let rec next () =
      Mutex.lock t.mutex;
      let rec wait () =
        if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
        else if t.stopping then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      let task = wait () in
      Mutex.unlock t.mutex;
      match task with
      | None -> ()
      | Some f ->
        (try f () with e -> (try t.on_error e with _ -> ()));
        next ()
    in
    next ()

  let jobs t = Array.length t.workers

  let pending t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  let submit t f =
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.Pool.submit: pool is shut down"
    end;
    Queue.push f t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    let was_stopping = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if not was_stopping then Array.iter Domain.join t.workers

  let create ?(on_error = fun _ -> ()) ~jobs () =
    if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs < 1";
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        workers = [||];
        on_error;
      }
    in
    let started = ref [] in
    (match
       for _ = 1 to jobs do
         started := Domain.spawn (worker_loop t) :: !started
       done
     with
    | () -> t.workers <- Array.of_list (List.rev !started)
    | exception e ->
      (* the runtime refused a domain: stop the workers already started *)
      t.workers <- Array.of_list !started;
      shutdown t;
      raise e);
    t
end
