/* A SIGPROF sampler to preload into one process:

     cc -O2 -shared -fPIC -o hostprof.so sampler.c -ldl
     HOSTPROF_OUT=prof.txt LD_PRELOAD=./hostprof.so ./program args

   Every HOSTPROF_US microseconds of the process's CPU time (default 1000)
   it records the interrupted instruction pointer and the top WORDS words
   of the stack; at exit it writes the executable's load address and one
   line of hex words per sample.  hostprof.py maps them to symbols. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define WORDS 16
#define MAX_SAMPLES 200000

static uintptr_t (*samples)[WORDS + 1];
static volatile long nsamples;
static uintptr_t base;

static void on_prof(int sig, siginfo_t *si, void *uc_) {
  (void)sig; (void)si;
  ucontext_t *uc = uc_;
  long i = nsamples;
  if (i >= MAX_SAMPLES) return;
#if defined(__x86_64__)
  uintptr_t ip = uc->uc_mcontext.gregs[REG_RIP], sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
  uintptr_t ip = uc->uc_mcontext.pc, sp = uc->uc_mcontext.sp;
#else
#error "sampler.c reads the interrupted pc and sp on x86_64 and aarch64 only"
#endif
  samples[i][0] = ip;
  /* The words above sp may end at an unmapped page: copying them through
     the kernel returns an error there instead of faulting. */
  struct iovec local = {&samples[i][1], WORDS * sizeof(uintptr_t)};
  struct iovec remote = {(void *)sp, WORDS * sizeof(uintptr_t)};
  if (process_vm_readv(getpid(), &local, 1, &remote, 1, 0) < 0)
    memset(&samples[i][1], 0, WORDS * sizeof(uintptr_t));
  nsamples = i + 1;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size; (void)data;
  base = info->dlpi_addr;
  return 1;
}

__attribute__((constructor)) static void start(void) {
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  if (!samples) return;
  dl_iterate_phdr(first_object, NULL);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const char *us = getenv("HOSTPROF_US");
  long period = us ? atol(us) : 1000;
  struct itimerval it = {{0, period}, {0, period}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (!samples) return;
  const char *path = getenv("HOSTPROF_OUT");
  char fallback[64];
  if (!path) {
    snprintf(fallback, sizeof fallback, "hostprof.%d.txt", (int)getpid());
    path = fallback;
  }
  FILE *f = fopen(path, "w");
  if (!f) return;
  fprintf(f, "base %lx\n", (unsigned long)base);
  for (long i = 0; i < nsamples; i++) {
    for (int w = 0; w <= WORDS; w++)
      fprintf(f, w ? " %lx" : "%lx", (unsigned long)samples[i][w]);
    fputc('\n', f);
  }
  fclose(f);
}
